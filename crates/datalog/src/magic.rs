//! Magic-sets transformation: goal-directed bottom-up query evaluation.
//!
//! §4 of the paper leaves the choice of query evaluation procedure open
//! ("either ... top-down or ... bottom-up"). Top-down resolution is a
//! rewriting the one fixpoint engine can serve (Behrend's uniform
//! fixpoint approach), and this module is that rewriting: the program
//! gets *magic predicates* that encode the query's binding pattern, so
//! that bottom-up evaluation only derives facts relevant to the goal —
//! goal-directed like resolution, terminating like the fixpoint, recursion
//! included.
//!
//! Scope: the transformation is applied when the query's reachable
//! subprogram is negation-free (the rewritten program of a stratified
//! original need not be stratified, so negation falls back to
//! [`crate::eval::materialize_for`] — reported in the result so callers
//! can see which path answered).

use crate::ast::{Atom, Literal, Pred, Rule, Term, Var};
use crate::depgraph::{DepGraph, EdgeSign};
use crate::error::Error;
use crate::eval::join::Bindings;
use crate::eval::{materialize_for, StateView};
use crate::schema::Program;
use crate::storage::database::Database;
use crate::storage::tuple::Tuple;
use std::collections::{BTreeSet, VecDeque};

/// An adornment: for each argument position, whether it is bound at call
/// time.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct Adornment(pub Vec<bool>);

impl Adornment {
    fn suffix(&self) -> String {
        self.0.iter().map(|&b| if b { 'b' } else { 'f' }).collect()
    }

    fn bound_positions(&self) -> impl Iterator<Item = usize> + '_ {
        self.0
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| b.then_some(i))
    }
}

/// Which evaluation path answered a magic query.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MagicPath {
    /// The rewritten (magic) program was evaluated.
    Rewritten,
    /// The goal's subprogram uses negation; fell back to
    /// relevance-restricted materialization.
    FallbackNegation,
    /// The goal predicate is extensional; answered directly.
    Extensional,
}

/// Result of a magic-sets query.
#[derive(Clone, Debug)]
pub struct MagicAnswers {
    /// The matching tuples of the query predicate.
    pub tuples: Vec<Tuple>,
    /// How the answer was computed.
    pub path: MagicPath,
}

fn magic_pred(pred: Pred, ad: &Adornment) -> Pred {
    Pred::new(
        &format!("magic_{}_{}", pred.name, ad.suffix()),
        ad.bound_positions().count(),
    )
}

fn adorned_pred(pred: Pred, ad: &Adornment) -> Pred {
    Pred::new(&format!("{}_{}", pred.name, ad.suffix()), pred.arity)
}

/// Answers `query` (an atom whose constant arguments are the bound
/// pattern) against `db`, using the magic-sets rewriting when possible.
pub fn query(db: &Database, query: &Atom) -> Result<MagicAnswers, Error> {
    let program = db.program();
    let pred = query.pred;

    if !program.is_derived(pred) {
        let pattern: Vec<Option<crate::ast::Const>> =
            query.terms.iter().map(|t| t.as_const()).collect();
        return Ok(MagicAnswers {
            tuples: db.relation(pred).select(&pattern),
            path: MagicPath::Extensional,
        });
    }

    // Negation anywhere in the reachable subprogram → fall back.
    let graph = DepGraph::build(program);
    let mut reachable = graph.reachable(pred);
    reachable.insert(pred);
    let has_negation = reachable.iter().any(|&p| {
        graph
            .deps(p)
            .any(|(q, sign)| sign == EdgeSign::Negative && reachable.contains(&q))
    });
    if has_negation {
        let interp = materialize_for(db, &[pred])?;
        let state = StateView::new(db, &interp);
        return Ok(MagicAnswers {
            tuples: crate::query::answers(state, query),
            path: MagicPath::FallbackNegation,
        });
    }

    // ---- Build the rewritten program ----
    let query_ad = Adornment(query.terms.iter().map(|t| t.is_ground()).collect());
    let mut rewritten = Program::builder();
    let mut seen: BTreeSet<(Pred, Adornment)> = BTreeSet::new();
    let mut work: VecDeque<(Pred, Adornment)> = VecDeque::new();
    work.push_back((pred, query_ad.clone()));
    seen.insert((pred, query_ad.clone()));

    while let Some((p, ad)) = work.pop_front() {
        for rule in program.rules_for(p) {
            // Bound head variables seed the sideways information passing.
            let mut bound: BTreeSet<Var> = BTreeSet::new();
            for pos in ad.bound_positions() {
                if let Term::Var(v) = rule.head.terms[pos] {
                    bound.insert(v);
                }
            }
            let magic_head_args: Vec<Term> =
                ad.bound_positions().map(|i| rule.head.terms[i]).collect();
            let magic_lit = Literal::pos(Atom {
                pred: magic_pred(p, &ad),
                terms: magic_head_args,
                span: None,
            });

            let mut new_body: Vec<Literal> = vec![magic_lit.clone()];
            let mut magic_prefix: Vec<Literal> = vec![magic_lit];
            for lit in &rule.body {
                debug_assert!(lit.positive, "negation-free checked above");
                let q = lit.atom.pred;
                if program.is_derived(q) {
                    let q_ad = Adornment(
                        lit.atom
                            .terms
                            .iter()
                            .map(|t| match t {
                                Term::Const(_) => true,
                                Term::Var(v) => bound.contains(v),
                            })
                            .collect(),
                    );
                    // Magic rule: seed q's magic set from what is known
                    // before this literal.
                    let magic_q = Atom {
                        pred: magic_pred(q, &q_ad),
                        terms: q_ad.bound_positions().map(|i| lit.atom.terms[i]).collect(),
                        span: None,
                    };
                    rewritten.rule(Rule::new(magic_q, magic_prefix.clone()));
                    if seen.insert((q, q_ad.clone())) {
                        work.push_back((q, q_ad.clone()));
                    }
                    // The body literal refers to the adorned predicate.
                    let adorned = Literal::pos(Atom {
                        pred: adorned_pred(q, &q_ad),
                        terms: lit.atom.terms.clone(),
                        span: None,
                    });
                    new_body.push(adorned.clone());
                    magic_prefix.push(adorned);
                } else {
                    new_body.push(lit.clone());
                    magic_prefix.push(lit.clone());
                }
                bound.extend(lit.atom.vars());
            }

            rewritten.rule(Rule::new(
                Atom {
                    pred: adorned_pred(p, &ad),
                    terms: rule.head.terms.clone(),
                    span: None,
                },
                new_body,
            ));
        }
    }

    // Seed: the query's bound constants. The magic predicate of the query
    // adornment may itself be derived (recursive queries re-seed it), so
    // the seed goes through a fresh extensional predicate.
    let bound_n = query_ad.bound_positions().count();
    let seed_base = Pred::new(
        &format!("magicseed_{}_{}", pred.name, query_ad.suffix()),
        bound_n,
    );
    let seed_vars: Vec<Term> = (0..bound_n).map(|i| Term::var(&format!("Ms{i}"))).collect();
    rewritten.rule(Rule::new(
        Atom {
            pred: magic_pred(pred, &query_ad),
            terms: seed_vars.clone(),
            span: None,
        },
        vec![Literal::pos(Atom {
            pred: seed_base,
            terms: seed_vars,
            span: None,
        })],
    ));
    let seed: Tuple = query.terms.iter().filter_map(|t| t.as_const()).collect();

    let rewritten = rewritten.build()?;
    let mut magic_db = db.with_program(rewritten)?;
    magic_db.assert_tuple(seed_base, seed)?;

    let goal = adorned_pred(pred, &query_ad);
    let interp = materialize_for(&magic_db, &[goal])?;

    // Filter the adorned extension by the query pattern.
    let lits = [Literal::pos(Atom {
        pred: goal,
        terms: query.terms.clone(),
        span: None,
    })];
    let rel = interp.relation(goal);
    let rel_of = |_: usize| rel;
    let tuples = crate::eval::plan::eval_seeded(&mut None, &lits, &rel_of, &Bindings::new())
        .into_iter()
        .map(|b| crate::eval::join::ground_terms(&query.terms, &b).expect("query bindings ground"))
        .collect::<BTreeSet<Tuple>>()
        .into_iter()
        .collect();

    Ok(MagicAnswers {
        tuples,
        path: MagicPath::Rewritten,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Const;
    use crate::eval::materialize;
    use crate::parser::parse_database;
    use crate::storage::tuple::syms;

    fn chain(n: usize) -> Database {
        let mut src = String::from(
            "tc(X, Y) :- e(X, Y).
             tc(X, Y) :- e(X, Z), tc(Z, Y).\n",
        );
        for i in 0..n {
            src.push_str(&format!("e(n{i}, n{}).\n", i + 1));
        }
        parse_database(&src).unwrap()
    }

    #[test]
    fn bound_first_argument_matches_full_evaluation() {
        let db = chain(30);
        let q = Atom::new("tc", vec![Term::sym("n25"), Term::var("Y")]);
        let magic = query(&db, &q).unwrap();
        assert_eq!(magic.path, MagicPath::Rewritten);

        let full = materialize(&db).unwrap();
        let expected: BTreeSet<Tuple> = full
            .relation(Pred::new("tc", 2))
            .iter()
            .filter(|t| t[0] == Const::sym("n25"))
            .cloned()
            .collect();
        let got: BTreeSet<Tuple> = magic.tuples.iter().cloned().collect();
        assert_eq!(got, expected);
        assert_eq!(got.len(), 5); // n25 -> n26..n30
    }

    #[test]
    fn fully_bound_query_is_membership() {
        let db = chain(10);
        let yes = Atom::ground("tc", vec![Const::sym("n2"), Const::sym("n9")]);
        let no = Atom::ground("tc", vec![Const::sym("n9"), Const::sym("n2")]);
        assert_eq!(query(&db, &yes).unwrap().tuples.len(), 1);
        assert_eq!(query(&db, &no).unwrap().tuples.len(), 0);
    }

    #[test]
    fn free_query_still_correct() {
        let db = chain(6);
        let q = Atom::new("tc", vec![Term::var("X"), Term::var("Y")]);
        let magic = query(&db, &q).unwrap();
        assert_eq!(magic.tuples.len(), 6 * 7 / 2);
    }

    #[test]
    fn negation_falls_back_and_matches() {
        let db = parse_database(
            "la(dolors). la(joan). works(joan).
             unemp(X) :- la(X), not works(X).",
        )
        .unwrap();
        let q = Atom::new("unemp", vec![Term::var("X")]);
        let ans = query(&db, &q).unwrap();
        assert_eq!(ans.path, MagicPath::FallbackNegation);
        assert_eq!(ans.tuples, vec![syms(&["dolors"])]);
    }

    #[test]
    fn extensional_query_short_circuits() {
        let db = chain(3);
        let q = Atom::new("e", vec![Term::sym("n1"), Term::var("Y")]);
        let ans = query(&db, &q).unwrap();
        assert_eq!(ans.path, MagicPath::Extensional);
        assert_eq!(ans.tuples.len(), 1);
    }

    #[test]
    fn nonrecursive_joins_through_views() {
        let db = parse_database(
            "emp(ana, sales). emp(ben, hr). dept(sales, bcn). dept(hr, madrid).
             emp_city(E, C) :- emp(E, D), dept(D, C).
             colleagues_city(E1, E2, C) :- emp_city(E1, C), emp_city(E2, C).",
        )
        .unwrap();
        let q = Atom::new(
            "colleagues_city",
            vec![Term::sym("ana"), Term::var("E2"), Term::var("C")],
        );
        let ans = query(&db, &q).unwrap();
        assert_eq!(ans.path, MagicPath::Rewritten);
        assert_eq!(ans.tuples, vec![syms(&["ana", "ana", "bcn"])]);
    }

    #[test]
    fn repeated_variable_query() {
        // tc(X, X): cycles only. Chain has none; a looped graph has some.
        let db = parse_database(
            "e(a, b). e(b, a). e(b, c).
             tc(X, Y) :- e(X, Y).
             tc(X, Y) :- e(X, Z), tc(Z, Y).",
        )
        .unwrap();
        let q = Atom::new("tc", vec![Term::var("X"), Term::var("X")]);
        let ans = query(&db, &q).unwrap();
        let got: BTreeSet<Tuple> = ans.tuples.into_iter().collect();
        let expected: BTreeSet<Tuple> =
            [syms(&["a", "a"]), syms(&["b", "b"])].into_iter().collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn constant_in_rule_head() {
        let db = parse_database(
            "works(ana). works(ben).
             status(busy, X) :- works(X).",
        )
        .unwrap();
        let q = Atom::new("status", vec![Term::sym("busy"), Term::var("X")]);
        let ans = query(&db, &q).unwrap();
        assert_eq!(ans.tuples.len(), 2);
        // Mismatching bound constant yields nothing.
        let q2 = Atom::new("status", vec![Term::sym("idle"), Term::var("X")]);
        assert!(query(&db, &q2).unwrap().tuples.is_empty());
    }

    #[test]
    fn magic_derives_fewer_facts_than_full() {
        // The point of the transformation: on a bound query over a long
        // chain, the magic evaluation touches only the suffix.
        let db = chain(100);
        let q = Atom::new("tc", vec![Term::sym("n95"), Term::var("Y")]);
        let ans = query(&db, &q).unwrap();
        assert_eq!(ans.tuples.len(), 5);
        let full = materialize(&db).unwrap();
        assert_eq!(full.fact_count(), 100 * 101 / 2);
        // (The rewritten evaluation derives O(5) tc facts; asserted via
        // the answers + the Rewritten path. Timing is bench C-F11.)
        assert_eq!(ans.path, MagicPath::Rewritten);
    }
}
