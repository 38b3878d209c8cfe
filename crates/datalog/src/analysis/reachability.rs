//! Pass: unreachable rules — code `W004`.
//!
//! The problem catalog only ever evaluates predicates reachable from a
//! *root*: an explicitly declared view/IC/condition, the (synthesized)
//! global inconsistency predicate, or the top of a rule hierarchy — a
//! component of the stratification that no other component reads and that
//! has an exit rule (one with no positive literal over the component
//! itself), the thing a user queries. A rule whose head is reachable from
//! no root is dead weight: no update, check, or query can ever touch it.
//! The classic case is an orphan cycle (`p :- q. q :- p.`, or `p :- p.`)
//! referenced by nothing: without an exit rule it derives nothing either.

use super::{AnalysisInput, Diagnostic, Label, Pass};
use crate::ast::{Pred, Rule};
use crate::depgraph::DepGraph;
use crate::stratify::components;
use std::collections::BTreeSet;

/// The reachability pass.
pub struct Reachability;

impl Pass for Reachability {
    fn name(&self) -> &'static str {
        "reachability"
    }

    fn run(&self, input: &AnalysisInput<'_>, out: &mut Vec<Diagnostic>) {
        let program = input.program;
        let graph = DepGraph::build(program);

        // Roots: declared predicates, the global ic, and every component
        // that no other component reads and that has an exit rule (one
        // that does not recurse through a positive member literal).
        let mut roots: BTreeSet<Pred> = program.declared_preds().clone();
        roots.extend(program.global_ic());
        for component in components(program) {
            let member = |p: &Pred| component.preds.contains(p);
            let reads = |r: &&Rule| r.body.iter().any(|l| member(&l.atom.pred));
            let recurses = |r: &&Rule| r.body.iter().any(|l| l.positive && member(&l.atom.pred));
            let (own, others): (Vec<&Rule>, Vec<&Rule>) =
                program.rules().iter().partition(|r| member(&r.head.pred));
            if !others.iter().any(reads) && !own.iter().all(recurses) {
                roots.extend(&component.preds);
            }
        }

        let mut reachable = roots.clone();
        for &root in &roots {
            reachable.extend(graph.reachable(root));
        }

        for rule in program.rules() {
            if rule.span().is_none() {
                continue; // synthesized / API-built
            }
            if !reachable.contains(&rule.head.pred) {
                let mut d = Diagnostic::warning(
                    "W004",
                    format!(
                        "rule for `{}` is unreachable from every view, constraint \
                         and condition",
                        rule.head.pred
                    ),
                )
                .with_help(
                    "no update, integrity check or query can use it; \
                     delete it or reference it from a reachable rule",
                );
                if let Some(l) = Label::of_atom(&rule.head, "this head is never needed") {
                    d = d.with_primary(l);
                } else if let Some(span) = rule.span() {
                    d = d.with_primary(Label::new(span, "this rule is never needed"));
                }
                out.push(d);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::analysis::analyze_source;

    #[test]
    fn orphan_cycle_flagged() {
        let a = analyze_source("v(X) :- b(X).\np(X) :- q(X).\nq(X) :- p(X).\n");
        let w004: Vec<_> = a.diagnostics.iter().filter(|d| d.code == "W004").collect();
        assert_eq!(w004.len(), 2, "{:?}", a.diagnostics);
        assert!(w004.iter().all(|d| d.primary.is_some()));
    }

    #[test]
    fn top_level_views_are_roots() {
        let a = analyze_source("v(X) :- w(X).\nw(X) :- b(X).\n");
        assert!(a.diagnostics.iter().all(|d| d.code != "W004"));
    }

    #[test]
    fn declared_predicates_are_roots() {
        // `aux` is referenced by nothing but explicitly declared: intended.
        let a = analyze_source("#view aux/1.\naux(X) :- b(X).\n");
        assert!(a.diagnostics.iter().all(|d| d.code != "W004"));
    }

    #[test]
    fn standalone_recursive_view_is_its_own_root() {
        let a = analyze_source("tc(X, Y) :- e(X, Y).\ntc(X, Y) :- e(X, Z), tc(Z, Y).\n");
        assert!(
            a.diagnostics.iter().all(|d| d.code != "W004"),
            "{:?}",
            a.diagnostics
        );
    }

    #[test]
    fn recursive_pair_with_an_exit_rule_is_its_own_root() {
        let a = analyze_source("e(a).\np(X) :- e(X).\np(X) :- q(X).\nq(X) :- p(X), e(X).\n");
        assert!(
            a.diagnostics.iter().all(|d| d.code != "W004"),
            "{:?}",
            a.diagnostics
        );
    }

    #[test]
    fn self_loop_without_exit_rule_flagged() {
        let a = analyze_source("p(X) :- p(X).\n");
        let w004: Vec<_> = a.diagnostics.iter().filter(|d| d.code == "W004").collect();
        assert_eq!(w004.len(), 1, "{:?}", a.diagnostics);
    }

    #[test]
    fn constraint_bodies_are_reachable() {
        let a = analyze_source("w(X) :- b(X).\n:- w(X), not b2(X).\n");
        assert!(
            a.diagnostics.iter().all(|d| d.code != "W004"),
            "{:?}",
            a.diagnostics
        );
    }
}
