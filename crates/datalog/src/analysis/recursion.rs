//! Pass: negation over recursion — code `W005`.
//!
//! §3 builds, for every derived predicate, a transition rule by unfolding
//! its definition over old-state and event literals. A *negated* reference
//! to a recursively defined predicate is the blowup hazard: `¬Pⁿ` cannot be
//! unfolded into a DNF of the same literals (the negation of the whole
//! fixpoint), so the event-rule machinery falls back to refuting the full
//! transition — exponential in the recursion depth. The program is still
//! legal (stratifiable when the negation comes from outside the cycle), so
//! this is a warning, not an error.

use super::{AnalysisInput, Diagnostic, Label, Pass};
use crate::ast::Pred;
use crate::schema::Program;
use crate::stratify::components;
use std::collections::BTreeSet;

/// The members of `program`'s recursive components.
pub(super) fn recursive_preds(program: &Program) -> BTreeSet<Pred> {
    components(program)
        .into_iter()
        .filter(|c| c.recursive)
        .flat_map(|c| c.preds)
        .collect()
}

/// The negated-recursion pass.
pub struct NegatedRecursion;

impl Pass for NegatedRecursion {
    fn name(&self) -> &'static str {
        "negated-recursion"
    }

    fn run(&self, input: &AnalysisInput<'_>, out: &mut Vec<Diagnostic>) {
        let components = components(input.program);
        let component_of = |p: Pred| components.iter().position(|c| c.preds.contains(&p));
        let recursive = recursive_preds(input.program);
        for rule in input.program.rules() {
            for lit in &rule.body {
                if lit.positive || !recursive.contains(&lit.atom.pred) {
                    continue;
                }
                // Negation inside the head's own component is E002's.
                if component_of(lit.atom.pred) == component_of(rule.head.pred) {
                    continue;
                }
                let mut d = Diagnostic::warning(
                    "W005",
                    format!(
                        "negation over recursively defined `{}`: transition and \
                         event rules multiply through the recursion (§3)",
                        lit.atom.pred.name
                    ),
                )
                .with_help(
                    "the downward interpretation must refute the whole fixpoint here; \
                     consider a non-recursive reformulation of the negated predicate",
                );
                if let Some(l) = Label::of_atom(&lit.atom, "negated recursive reference") {
                    d = d.with_primary(l);
                } else if let Some(span) = rule.span() {
                    d = d.with_primary(Label::new(span, "in this rule"));
                }
                out.push(d);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::analysis::analyze_source;

    const TC: &str = "tc(X, Y) :- e(X, Y).\ntc(X, Y) :- e(X, Z), tc(Z, Y).\n";

    #[test]
    fn negating_transitive_closure_flagged() {
        let src = format!("{TC}sep(X, Y) :- n(X), n(Y), not tc(X, Y).\n");
        let a = analyze_source(&src);
        let d = a.diagnostics.iter().find(|d| d.code == "W005").unwrap();
        assert!(d.message.contains("tc"), "{}", d.message);
        let span = d.primary.as_ref().unwrap().span;
        assert_eq!(span.line, 3);
    }

    #[test]
    fn positive_recursion_silent() {
        let a = analyze_source(TC);
        assert!(a.diagnostics.iter().all(|d| d.code != "W005"));
    }

    #[test]
    fn negation_inside_its_own_component_is_e002_only() {
        let a = analyze_source("p(X) :- b(X), not q(X).\nq(X) :- p(X).\n");
        assert!(a.diagnostics.iter().any(|d| d.code == "E002"));
        assert!(
            a.diagnostics.iter().all(|d| d.code != "W005"),
            "{:?}",
            a.diagnostics
        );
    }

    #[test]
    fn negation_of_nonrecursive_silent() {
        let a = analyze_source("v(X) :- b(X), not w(X).\nw(X) :- c(X).\n");
        assert!(a.diagnostics.iter().all(|d| d.code != "W005"));
    }
}
