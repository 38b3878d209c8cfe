//! Pass: stratifiable negation — code `E002`.
//!
//! A program is stratifiable iff no predicate depends *negatively* on
//! itself through a cycle; the engines compute the perfect model stratum by
//! stratum and reject anything else. The engine's [`crate::stratify::stratify`]
//! stops at the first component with an internal negative edge; this pass
//! reads the same [`crate::stratify::components`] but reports *every* such
//! component, pointing at its negated body literals.

use super::{AnalysisInput, Diagnostic, Label, Pass};
use crate::stratify::components;

/// The stratification pass.
pub struct StratificationCheck;

impl Pass for StratificationCheck {
    fn name(&self) -> &'static str {
        "stratification"
    }

    fn run(&self, input: &AnalysisInput<'_>, out: &mut Vec<Diagnostic>) {
        // Every component with an internal negative edge breaks
        // stratification.
        for comp in components(input.program) {
            if comp.negative_edges.is_empty() {
                continue;
            }
            // Point at every negated literal inside the component.
            let mut labels = Vec::new();
            for rule in input.program.rules() {
                for lit in &rule.body {
                    let edge = (rule.head.pred, lit.atom.pred);
                    if !lit.positive && comp.negative_edges.contains(&edge) {
                        if let Some(l) = Label::of_atom(
                            &lit.atom,
                            format!("`{}` negated inside its own cycle", lit.atom.pred.name),
                        ) {
                            labels.push(l);
                        }
                    }
                }
            }
            let cycle: Vec<String> = comp.preds.iter().map(|p| format!("`{}`", p.name)).collect();
            let mut d = Diagnostic::error(
                "E002",
                format!(
                    "program is not stratifiable: {} depend{} negatively on {}",
                    cycle.join(", "),
                    if cycle.len() == 1 { "s" } else { "" },
                    if cycle.len() == 1 {
                        "itself"
                    } else {
                        "each other"
                    },
                ),
            )
            .with_help("break the cycle or move the negation onto a predicate of a lower stratum");
            let mut labels = labels.into_iter();
            if let Some(first) = labels.next() {
                d = d.with_primary(first);
            }
            for l in labels {
                d = d.with_secondary(l);
            }
            out.push(d);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::analysis::analyze_source;

    #[test]
    fn negative_cycle_reported_with_span() {
        let a = analyze_source("p(X) :- q(X), not r(X).\nr(X) :- p(X).\n");
        let d = a.diagnostics.iter().find(|d| d.code == "E002").unwrap();
        assert!(d.message.contains("not stratifiable"), "{}", d.message);
        let span = d.primary.as_ref().unwrap().span;
        assert_eq!((span.line, span.col), (1, 19)); // the `r(X)` under `not`
    }

    #[test]
    fn two_independent_cycles_two_diagnostics() {
        let a = analyze_source(
            "p(X) :- a(X), not q(X).\nq(X) :- p(X).\n\
             s(X) :- a(X), not t(X).\nt(X) :- s(X).\n",
        );
        assert_eq!(
            a.diagnostics.iter().filter(|d| d.code == "E002").count(),
            2,
            "{:?}",
            a.diagnostics
        );
    }

    #[test]
    fn stratified_negation_silent() {
        let a = analyze_source("q(X) :- b(X).\np(X) :- b(X), not q(X).\n");
        assert!(a.diagnostics.iter().all(|d| d.code != "E002"));
    }
}
