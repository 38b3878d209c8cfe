//! Stratification analysis.
//!
//! The engine computes the perfect (stratified) model: negation is only
//! permitted on predicates fully defined in earlier strata. A program is
//! stratifiable iff no predicate depends *negatively* on itself through a
//! cycle. This module checks that condition and produces an evaluation
//! order: the strongly connected components of the dependency graph,
//! restricted to derived predicates, in dependency order.

use crate::ast::Pred;
use crate::depgraph::{DepGraph, EdgeSign};
use crate::error::SchemaError;
use crate::schema::Program;
use std::collections::{BTreeMap, BTreeSet};

/// A validated stratification of a program.
#[derive(Clone, Debug)]
pub struct Stratification {
    /// Derived-predicate components in evaluation order (dependencies
    /// first). Components with more than one member — or a self-loop — are
    /// recursive.
    components: Vec<Component>,
    /// Numeric stratum per derived predicate (base predicates are stratum 0).
    stratum_of: BTreeMap<Pred, usize>,
}

/// One evaluation unit: an SCC of mutually recursive derived predicates.
#[derive(Clone, Debug)]
pub struct Component {
    /// Members of the component.
    pub preds: Vec<Pred>,
    /// True iff evaluation of this component requires a fixpoint (the
    /// component has an internal edge).
    pub recursive: bool,
}

impl Stratification {
    /// Computes the stratification of `program`, or reports the offending
    /// predicate if the program is not stratifiable.
    pub fn compute(program: &Program) -> Result<Stratification, SchemaError> {
        let graph = DepGraph::build(program);
        let sccs = graph.sccs();

        // Reject negation inside a component.
        for comp in &sccs {
            let members: BTreeSet<Pred> = comp.iter().copied().collect();
            for &p in comp {
                for (q, sign) in graph.deps(p) {
                    if sign == EdgeSign::Negative && members.contains(&q) {
                        return Err(SchemaError::NotStratifiable(q));
                    }
                }
            }
        }

        // Numeric strata: base = 0; positive dep — same stratum allowed;
        // negative dep — strictly higher. Computed over the (acyclic)
        // condensation, so a single pass in SCC order suffices.
        let mut stratum_of: BTreeMap<Pred, usize> = BTreeMap::new();
        let mut components = Vec::new();
        for comp in &sccs {
            // Base predicates are singleton components with no out-edges.
            let derived: Vec<Pred> = comp
                .iter()
                .copied()
                .filter(|p| program.is_derived(*p))
                .collect();
            let members: BTreeSet<Pred> = comp.iter().copied().collect();
            let mut stratum = if derived.is_empty() { 0 } else { 1 };
            let mut recursive = false;
            for &p in comp {
                for (q, sign) in graph.deps(p) {
                    if members.contains(&q) {
                        recursive = true;
                        continue;
                    }
                    let qs = stratum_of.get(&q).copied().unwrap_or(0);
                    let need = match sign {
                        EdgeSign::Positive => qs,
                        EdgeSign::Negative => qs + 1,
                    };
                    stratum = stratum.max(need.max(if derived.is_empty() { 0 } else { 1 }));
                }
            }
            for &p in comp {
                stratum_of.insert(p, if program.is_derived(p) { stratum } else { 0 });
            }
            if !derived.is_empty() {
                components.push(Component {
                    preds: derived,
                    recursive,
                });
            }
        }

        Ok(Stratification {
            components,
            stratum_of,
        })
    }

    /// Derived-predicate components in evaluation order.
    pub fn components(&self) -> &[Component] {
        &self.components
    }

    /// The numeric stratum of a predicate (0 for base/unknown predicates).
    pub fn stratum(&self, pred: Pred) -> usize {
        self.stratum_of.get(&pred).copied().unwrap_or(0)
    }

    /// Derived predicates in evaluation order (flattened components).
    pub fn derived_order(&self) -> impl Iterator<Item = Pred> + '_ {
        self.components.iter().flat_map(|c| c.preds.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Atom, Literal, Rule, Term};

    fn atom(name: &str, vars: &[&str]) -> Atom {
        Atom::new(name, vars.iter().map(|v| Term::var(v)).collect())
    }

    fn program(rules: Vec<Rule>) -> Program {
        let mut b = Program::builder();
        for r in rules {
            b.rule(r);
        }
        b.build().unwrap()
    }

    #[test]
    fn negation_through_cycle_rejected() {
        // p :- not q.  q :- p.   (p depends negatively on itself)
        let p = program(vec![
            Rule::new(atom("p", &["X"]), vec![Literal::neg(atom("q", &["X"]))]),
            Rule::new(atom("q", &["X"]), vec![Literal::pos(atom("p", &["X"]))]),
        ]);
        assert!(matches!(
            Stratification::compute(&p),
            Err(SchemaError::NotStratifiable(_))
        ));
    }

    #[test]
    fn strata_respect_negation() {
        // unemp :- la, not works.   ic1 :- unemp, not u_benefit.
        let p = program(vec![
            Rule::new(
                atom("unemp", &["X"]),
                vec![
                    Literal::pos(atom("la", &["X"])),
                    Literal::neg(atom("works", &["X"])),
                ],
            ),
            Rule::new(
                Atom::new("ic1", vec![]),
                vec![
                    Literal::pos(atom("unemp", &["X"])),
                    Literal::neg(atom("u_benefit", &["X"])),
                ],
            ),
        ]);
        let s = Stratification::compute(&p).unwrap();
        assert_eq!(s.stratum(Pred::new("la", 1)), 0);
        let su = s.stratum(Pred::new("unemp", 1));
        let si = s.stratum(Pred::new("ic1", 0));
        assert!(su >= 1);
        // ic1 depends positively on unemp (same stratum allowed) and
        // negatively on base u_benefit (stratum 0), so si >= su suffices.
        assert!(si >= su);
        // global ic above ic1 (positive dep, same stratum allowed)
        assert!(s.stratum(Pred::new("ic", 0)) >= si);
    }

    #[test]
    fn recursive_component_flagged() {
        let p = program(vec![
            Rule::new(
                atom("tc", &["X", "Y"]),
                vec![Literal::pos(atom("e", &["X", "Y"]))],
            ),
            Rule::new(
                atom("tc", &["X", "Y"]),
                vec![
                    Literal::pos(atom("e", &["X", "Z"])),
                    Literal::pos(atom("tc", &["Z", "Y"])),
                ],
            ),
        ]);
        let s = Stratification::compute(&p).unwrap();
        let comp = s
            .components()
            .iter()
            .find(|c| c.preds.contains(&Pred::new("tc", 2)))
            .unwrap();
        assert!(comp.recursive);
    }

    #[test]
    fn nonrecursive_component_not_flagged() {
        let p = program(vec![Rule::new(
            atom("v", &["X"]),
            vec![Literal::pos(atom("b", &["X"]))],
        )]);
        let s = Stratification::compute(&p).unwrap();
        assert_eq!(s.components().len(), 1);
        assert!(!s.components()[0].recursive);
    }

    #[test]
    fn evaluation_order_is_bottom_up() {
        let p = program(vec![
            Rule::new(atom("w", &["X"]), vec![Literal::pos(atom("v", &["X"]))]),
            Rule::new(atom("v", &["X"]), vec![Literal::pos(atom("b", &["X"]))]),
        ]);
        let s = Stratification::compute(&p).unwrap();
        let order: Vec<Pred> = s.derived_order().collect();
        let vi = order.iter().position(|&p| p == Pred::new("v", 1)).unwrap();
        let wi = order.iter().position(|&p| p == Pred::new("w", 1)).unwrap();
        assert!(vi < wi);
    }

    #[test]
    fn negation_on_lower_stratum_allowed() {
        let p = program(vec![
            Rule::new(atom("q", &["X"]), vec![Literal::pos(atom("b", &["X"]))]),
            Rule::new(
                atom("p", &["X"]),
                vec![
                    Literal::pos(atom("b", &["X"])),
                    Literal::neg(atom("q", &["X"])),
                ],
            ),
        ]);
        assert!(Stratification::compute(&p).is_ok());
    }
}
