//! Provenance: derivation trees for derived facts.
//!
//! `explain` reconstructs *one* derivation of a ground fact from the
//! materialized model: which rule fired, under which bindings, supported
//! by which child facts, with which negative conditions checked absent.
//! Derivations are found with backtracking under a cycle guard — a fact
//! true in the perfect model always has a non-circular derivation (its
//! fixpoint rank), but a greedy support choice may be circular, so
//! unsuccessful branches are abandoned and retried.

use crate::ast::{Atom, Pred, Rule};
use crate::eval::join::{ground_terms, match_tuple, Bindings};
use crate::eval::plan::eval_seeded;
use crate::eval::StateView;
use crate::storage::relation::Relation;
use crate::storage::tuple::Tuple;
use std::collections::BTreeSet;
use std::fmt;

/// One derivation of a ground fact.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Derivation {
    /// The fact is stored extensionally.
    Extensional(Atom),
    /// The fact is derived by a rule instance.
    Derived {
        /// The derived ground fact.
        fact: Atom,
        /// The (uninstantiated) rule that fired.
        rule: Rule,
        /// Derivations of the positive body facts, in body order.
        supports: Vec<Derivation>,
        /// The ground negative conditions, checked absent.
        absent: Vec<Atom>,
    },
}

impl Derivation {
    /// The fact this derivation establishes.
    pub fn fact(&self) -> &Atom {
        match self {
            Derivation::Extensional(a) => a,
            Derivation::Derived { fact, .. } => fact,
        }
    }

    /// Depth of the derivation tree (an extensional leaf has depth 1).
    pub fn depth(&self) -> usize {
        match self {
            Derivation::Extensional(_) => 1,
            Derivation::Derived { supports, .. } => {
                1 + supports.iter().map(Derivation::depth).max().unwrap_or(0)
            }
        }
    }

    fn render(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let pad = "  ".repeat(indent);
        match self {
            Derivation::Extensional(a) => writeln!(f, "{pad}{a}  [fact]"),
            Derivation::Derived {
                fact,
                rule,
                supports,
                absent,
            } => {
                writeln!(f, "{pad}{fact}  [via: {rule}]")?;
                for s in supports {
                    s.render(f, indent + 1)?;
                }
                for a in absent {
                    writeln!(f, "{}not {a}  [checked absent]", "  ".repeat(indent + 1))?;
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for Derivation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.render(f, 0)
    }
}

/// Explains one ground fact against a materialized state. Returns `None`
/// if the fact does not hold.
pub fn explain(state: StateView<'_>, pred: Pred, tuple: &Tuple) -> Option<Derivation> {
    let mut visiting = BTreeSet::new();
    explain_guarded(state, pred, tuple, &mut visiting)
}

fn explain_guarded(
    state: StateView<'_>,
    pred: Pred,
    tuple: &Tuple,
    visiting: &mut BTreeSet<(Pred, Tuple)>,
) -> Option<Derivation> {
    if !state.holds(pred, tuple) {
        return None;
    }
    if !state.db.program().is_derived(pred) {
        return Some(Derivation::Extensional(tuple.to_atom(pred)));
    }
    let key = (pred, tuple.clone());
    if !visiting.insert(key.clone()) {
        return None; // circular support: backtrack
    }
    let result = (|| {
        for rule in state.db.program().rules_for(pred) {
            let Some(seed) = match_tuple(&rule.head.terms, tuple, &Bindings::new()) else {
                continue;
            };
            let rel_of = |i: usize| -> &Relation { state.relation(rule.body[i].atom.pred) };
            for b in eval_seeded(&mut None, &rule.body, &rel_of, &seed) {
                if let Some(d) = derivation_from_binding(state, rule, tuple, &b, visiting) {
                    return Some(d);
                }
            }
        }
        None
    })();
    visiting.remove(&key);
    result
}

fn derivation_from_binding(
    state: StateView<'_>,
    rule: &Rule,
    tuple: &Tuple,
    b: &Bindings,
    visiting: &mut BTreeSet<(Pred, Tuple)>,
) -> Option<Derivation> {
    let mut supports = Vec::new();
    let mut absent = Vec::new();
    for lit in &rule.body {
        let Some(t) = ground_terms(&lit.atom.terms, b) else {
            // Non-ground negative literal under ¬∃ semantics: record the
            // pattern as-checked.
            absent.push(lit.atom.clone());
            continue;
        };
        if lit.positive {
            supports.push(explain_guarded(state, lit.atom.pred, &t, visiting)?);
        } else {
            absent.push(t.to_atom(lit.atom.pred));
        }
    }
    Some(Derivation::Derived {
        fact: tuple.to_atom(rule.head.pred),
        rule: rule.clone(),
        supports,
        absent,
    })
}

/// Explains a (possibly non-ground) query atom: one derivation per
/// matching instance.
pub fn explain_all(state: StateView<'_>, atom: &Atom) -> Vec<Derivation> {
    let instances = crate::query::answers(state, atom);
    instances
        .into_iter()
        .filter_map(|t| explain(state, atom.pred, &t))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Const;
    use crate::eval::materialize;
    use crate::parser::parse_database;
    use crate::storage::tuple::syms;

    fn setup(
        src: &str,
    ) -> (
        crate::storage::database::Database,
        crate::eval::Interpretation,
    ) {
        let db = parse_database(src).unwrap();
        let m = materialize(&db).unwrap();
        (db, m)
    }

    #[test]
    fn extensional_fact_is_leaf() {
        let (db, m) = setup("q(a). p(X) :- q(X).");
        let state = StateView::new(&db, &m);
        let d = explain(state, Pred::new("q", 1), &syms(&["a"])).unwrap();
        assert_eq!(
            d,
            Derivation::Extensional(Atom::ground("q", vec![Const::sym("a")]))
        );
        assert_eq!(d.depth(), 1);
    }

    #[test]
    fn derived_fact_shows_rule_and_supports() {
        let (db, m) = setup(
            "la(dolors).
             unemp(X) :- la(X), not works(X).",
        );
        let state = StateView::new(&db, &m);
        let d = explain(state, Pred::new("unemp", 1), &syms(&["dolors"])).unwrap();
        let rendered = d.to_string();
        assert!(rendered.contains("unemp(dolors)  [via: unemp(X) :- la(X), not works(X)]"));
        assert!(rendered.contains("la(dolors)  [fact]"));
        assert!(rendered.contains("not works(dolors)  [checked absent]"));
        assert_eq!(d.depth(), 2);
    }

    #[test]
    fn absent_fact_unexplainable() {
        let (db, m) = setup("q(a). p(X) :- q(X).");
        let state = StateView::new(&db, &m);
        assert!(explain(state, Pred::new("p", 1), &syms(&["zzz"])).is_none());
    }

    #[test]
    fn recursive_derivations_terminate() {
        let (db, m) = setup(
            "e(a, b). e(b, a). e(b, c).
             tc(X, Y) :- e(X, Y).
             tc(X, Y) :- e(X, Z), tc(Z, Y).",
        );
        let state = StateView::new(&db, &m);
        // tc(a, c) needs the chain a->b->c; the a<->b cycle must not trap
        // the search.
        let d = explain(state, Pred::new("tc", 2), &syms(&["a", "c"])).unwrap();
        assert!(d.depth() >= 2);
        // Every tc tuple in the model is explainable.
        for t in m.relation(Pred::new("tc", 2)).iter() {
            assert!(
                explain(state, Pred::new("tc", 2), t).is_some(),
                "unexplainable {t}"
            );
        }
    }

    #[test]
    fn multi_rule_picks_a_working_support() {
        let (db, m) = setup("b(k). v(X) :- a(X). v(X) :- b(X).");
        let state = StateView::new(&db, &m);
        let d = explain(state, Pred::new("v", 1), &syms(&["k"])).unwrap();
        let Derivation::Derived { rule, .. } = &d else {
            panic!()
        };
        assert_eq!(rule.body[0].atom.pred, Pred::new("b", 1));
    }

    #[test]
    fn explain_all_enumerates_instances() {
        let (db, m) = setup("q(a). q(b). p(X) :- q(X).");
        let state = StateView::new(&db, &m);
        let ds = explain_all(state, &Atom::new("p", vec![crate::ast::Term::var("X")]));
        assert_eq!(ds.len(), 2);
    }
}
