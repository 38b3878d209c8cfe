//! Stratification analysis: the one place that decides which strongly
//! connected components a program's derived predicates form, which of
//! them are recursive, how the maintenance engine keeps each one current,
//! and whether negation is stratified.
//!
//! The engine computes the perfect (stratified) model: negation is only
//! permitted on predicates fully defined in earlier strata. A program is
//! stratifiable iff no predicate depends *negatively* on itself through a
//! cycle, i.e. no component has an internal negative edge. [`components`]
//! never fails — the analyzer reads it for programs the engine refuses —
//! and [`stratify`] layers the engine's condition on it.

use crate::ast::Pred;
use crate::depgraph::{DepGraph, EdgeSign};
use crate::error::SchemaError;
use crate::schema::Program;

/// How the maintenance engine keeps one component's extensions current.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Strategy {
    /// Support counts by finite differencing (\[GMS93\]); exact deletion
    /// answers with no re-derivation. Non-recursive components only.
    Counting,
    /// Delete-and-rederive: overestimate deletions through the component,
    /// then re-derive survivors. Handles recursion.
    DRed,
}

impl Strategy {
    /// Stable lowercase name (`dduf analyze`'s report).
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Counting => "counting",
            Strategy::DRed => "dred",
        }
    }
}

/// One evaluation unit: an SCC of mutually recursive derived predicates.
#[derive(Clone, Debug)]
pub struct Component {
    /// Members of the component, sorted.
    pub preds: Vec<Pred>,
    /// True iff evaluation of this component requires a fixpoint (the
    /// component has an internal edge).
    pub recursive: bool,
    /// The internal negative edges `(head, negated member)`, in member
    /// then dependency order: non-empty iff the component negates itself,
    /// which makes the program not stratifiable.
    pub negative_edges: Vec<(Pred, Pred)>,
}

impl Component {
    /// The strategy maintaining this component, `None` when it negates
    /// itself (the engine refuses such a program).
    pub fn strategy(&self) -> Option<Strategy> {
        match (self.negative_edges.is_empty(), self.recursive) {
            (false, _) => None,
            (true, true) => Some(Strategy::DRed),
            (true, false) => Some(Strategy::Counting),
        }
    }
}

/// The derived-predicate components of `program` in evaluation order
/// (dependencies first), whether or not the program is stratifiable.
pub fn components(program: &Program) -> Vec<Component> {
    let graph = DepGraph::build(program);
    let mut out = Vec::new();
    for comp in graph.sccs() {
        // A predicate with an out-edge heads a rule, so it is derived; a
        // base predicate is a singleton without edges and is left out.
        let preds: Vec<Pred> = comp
            .into_iter()
            .filter(|&p| program.is_derived(p))
            .collect();
        if preds.is_empty() {
            continue;
        }
        let mut recursive = false;
        let mut negative_edges = Vec::new();
        for &p in &preds {
            for (q, sign) in graph.deps(p) {
                if preds.contains(&q) {
                    recursive = true;
                    if sign == EdgeSign::Negative {
                        negative_edges.push((p, q));
                    }
                }
            }
        }
        out.push(Component {
            preds,
            recursive,
            negative_edges,
        });
    }
    out
}

/// The program's [`components`], or the first negated member of the first
/// component that negates itself if the program is not stratifiable.
pub fn stratify(program: &Program) -> Result<Vec<Component>, SchemaError> {
    let components = components(program);
    match components.iter().find_map(|c| c.negative_edges.first()) {
        Some(&(_, q)) => Err(SchemaError::NotStratifiable(q)),
        None => Ok(components),
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
        assert!(matches!(stratify(&p), Err(SchemaError::NotStratifiable(_))));
        // The components themselves are still there, without a strategy.
        let comps = components(&p);
        assert_eq!(comps.len(), 1);
        assert_eq!(
            comps[0].negative_edges,
            [(Pred::new("p", 1), Pred::new("q", 1))]
        );
        assert_eq!(comps[0].strategy(), None);
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
        // Base predicates form no component; every derived one is its own
        // counting component, below the ones that read it.
        let order: Vec<Pred> = stratify(&p)
            .unwrap()
            .iter()
            .inspect(|c| assert_eq!(c.strategy(), Some(Strategy::Counting)))
            .flat_map(|c| c.preds.iter().copied())
            .collect();
        assert_eq!(
            order,
            [
                Pred::new("unemp", 1),
                Pred::new("ic1", 0),
                Pred::new("ic", 0)
            ]
        );
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
        let comps = stratify(&p).unwrap();
        let comp = comps
            .iter()
            .find(|c| c.preds.contains(&Pred::new("tc", 2)))
            .unwrap();
        assert!(comp.recursive);
        assert_eq!(comp.strategy(), Some(Strategy::DRed));
    }

    #[test]
    fn nonrecursive_component_not_flagged() {
        let p = program(vec![Rule::new(
            atom("v", &["X"]),
            vec![Literal::pos(atom("b", &["X"]))],
        )]);
        let comps = stratify(&p).unwrap();
        assert_eq!(comps.len(), 1);
        assert!(!comps[0].recursive);
    }

    #[test]
    fn evaluation_order_is_bottom_up() {
        let p = program(vec![
            Rule::new(atom("w", &["X"]), vec![Literal::pos(atom("v", &["X"]))]),
            Rule::new(atom("v", &["X"]), vec![Literal::pos(atom("b", &["X"]))]),
        ]);
        let order: Vec<Pred> = stratify(&p)
            .unwrap()
            .iter()
            .flat_map(|c| c.preds.iter().copied())
            .collect();
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
        assert!(stratify(&p).is_ok());
    }
}
