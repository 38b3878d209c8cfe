//! Pass codes `W009`/`W010`: rule shapes that make evaluation, or keeping
//! a guard current, expensive no matter how the planner orders the join.
//! Evaluation does not consult this pass: whether a probe uses an index is
//! decided by the probed relation alone (`Relation::probe_cols`, DESIGN.md
//! §13).

use super::recursion::recursive_preds;
use super::{AnalysisInput, Diagnostic, Label, Pass};
use crate::ast::{Rule, Term, Var};
use crate::schema::{DerivedRole, Role};
use std::collections::BTreeSet;

/// The cost lint pass: rule shapes that make evaluation (or the paper's
/// update machinery) blow up regardless of plan choice.
pub struct CostShapes;

impl Pass for CostShapes {
    fn name(&self) -> &'static str {
        "cost-shapes"
    }

    fn run(&self, input: &AnalysisInput<'_>, out: &mut Vec<Diagnostic>) {
        let recursive = recursive_preds(input.program);
        for rule in input.program.rules() {
            cross_product(rule, out);
        }
        // W010: a guard predicate (constraint or condition) positively
        // over a recursive one — every relevant transaction maintains the
        // recursive component by DRed to keep the guard current. (Negative
        // occurrences are W005's, reported by the recursion pass.)
        for rule in input.program.rules() {
            let guard = matches!(
                input.program.role(rule.head.pred),
                Some(Role::Derived(DerivedRole::Ic)) | Some(Role::Derived(DerivedRole::Cond))
            );
            if !guard {
                continue;
            }
            for lit in rule.body.iter().filter(|l| l.positive) {
                if !recursive.contains(&lit.atom.pred) {
                    continue;
                }
                let mut d = Diagnostic::warning(
                    "W010",
                    format!(
                        "constraint or condition `{}` guards recursive `{}`: every relevant \
                         update maintains the recursive component by DRed before the guard is read",
                        rule.head.pred.name, lit.atom.pred.name
                    ),
                )
                .with_help(
                    "bound the recursion (materialize a non-recursive summary) if the guard \
                     must stay cheap to monitor",
                );
                if let Some(l) = Label::of_atom(&lit.atom, "recursive predicate guarded here") {
                    d = d.with_primary(l);
                } else if let Some(span) = rule.span() {
                    d = d.with_primary(Label::new(span, "in this rule"));
                }
                out.push(d);
            }
        }
    }
}

/// W009: positive body literals that split into disconnected variable
/// groups — the join is a cartesian product, quadratic (or worse) in the
/// group sizes no matter how the planner orders it.
fn cross_product(rule: &Rule, out: &mut Vec<Diagnostic>) {
    let positives: Vec<&crate::ast::Atom> = rule
        .body
        .iter()
        .filter(|l| l.positive)
        .map(|l| &l.atom)
        .collect();
    // Ground literals are filters, not join factors.
    let factors: Vec<&crate::ast::Atom> = positives
        .into_iter()
        .filter(|a| a.terms.iter().any(|t| matches!(t, Term::Var(_))))
        .collect();
    if factors.len() < 2 {
        return;
    }
    // Union-find-lite over the factors, connected through shared variables.
    let mut group: Vec<usize> = (0..factors.len()).collect();
    let vars: Vec<BTreeSet<Var>> = factors
        .iter()
        .map(|a| a.vars().into_iter().collect())
        .collect();
    for i in 0..factors.len() {
        for j in i + 1..factors.len() {
            if vars[i].intersection(&vars[j]).next().is_some() {
                let (gi, gj) = (group[i], group[j]);
                if gi != gj {
                    for g in &mut group {
                        if *g == gj {
                            *g = gi;
                        }
                    }
                }
            }
        }
    }
    let groups: BTreeSet<usize> = group.iter().copied().collect();
    if groups.len() < 2 {
        return;
    }
    let mut d = Diagnostic::warning(
        "W009",
        format!(
            "cartesian product: the positive body literals of this `{}` rule form {} \
             disconnected variable groups",
            rule.head.pred.name,
            groups.len()
        ),
    )
    .with_help("join the groups through a shared variable, or split the rule");
    if let Some(l) = Label::of_atom(&rule.head, "rule whose body is a cross product") {
        d = d.with_primary(l);
    } else if let Some(span) = rule.span() {
        d = d.with_primary(Label::new(span, "in this rule"));
    }
    // Point at one representative literal per group.
    for &g in &groups {
        let rep = factors[group.iter().position(|&x| x == g).unwrap()];
        if let Some(l) = Label::of_atom(rep, "independent group starts here") {
            d = d.with_secondary(l);
        }
    }
    out.push(d);
}

#[cfg(test)]
mod tests {
    use crate::analysis::analyze_source;

    #[test]
    fn cross_product_flagged_as_w009() {
        let a = analyze_source("pairs(X, Y) :- person(X), city(Y).\n");
        let d = a.diagnostics.iter().find(|d| d.code == "W009").unwrap();
        assert!(d.message.contains("2 disconnected"), "{}", d.message);
        // Connected bodies are silent.
        let a = analyze_source("lives(X, Y) :- person(X), home(X, Y).\n");
        assert!(a.diagnostics.iter().all(|d| d.code != "W009"));
    }

    #[test]
    fn guard_over_recursion_flagged_as_w010() {
        let a =
            analyze_source("tc(X, Y) :- e(X, Y).\ntc(X, Y) :- e(X, Z), tc(Z, Y).\n:- tc(X, X).\n");
        assert!(
            a.diagnostics.iter().any(|d| d.code == "W010"),
            "{:?}",
            a.diagnostics
        );
        let a = analyze_source("v(X) :- e(X).\n:- v(X), not ok(X).\n");
        assert!(a.diagnostics.iter().all(|d| d.code != "W010"));
    }
}
