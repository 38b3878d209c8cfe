//! Update-problem classification — info codes `I001`–`I004`.
//!
//! The paper's central claim is that the deductive updating problems —
//! view updating, materialized-view maintenance, integrity checking,
//! condition monitoring — are one framework instantiated with different
//! *request shapes*, and that how hard each instance is follows from
//! statically decidable properties of the rules. This pass decides those
//! properties per derived predicate:
//!
//! * **Downward translation** (view update, §5.2): *deterministic* when
//!   every insertion request admits exactly one base translation —
//!   a single defining rule, no existential body variables, no negation.
//!   Otherwise *ambiguous*, with the reasons recorded: multiple rules
//!   (disjunctive choice), existential variables (instantiation choice),
//!   or negation (deletion-by-insertion choice).
//! * **Upward maintenance** (§3.2): *deletion-sensitive* when an
//!   insertion into some base predicate can delete one of its tuples — the
//!   base predicate is in the [signed closure](DepGraph::signed_closure)
//!   of the predicate's deletions with a positive sign, the same sign
//!   analysis the maintenance engine's possibility test runs — otherwise
//!   *monotone*: insertions only induce insertions.
//! * **Strategy** (§5.1.2): the engine's own [`Strategy`] for the
//!   predicate's component — *counting* for a non-recursive one, *DRed*
//!   (delete and rederive from the changed tuples, DESIGN.md §4.1, §15)
//!   for a recursive one, and none for a component that negates itself,
//!   which the engine refuses.
//!
//! The classification is surfaced two ways: as a typed table
//! ([`Classification`]) consumed by [`super::report::ProgramReport`], and
//! as `I0xx` info diagnostics from the [`Classify`] pass, which runs in
//! the `dduf analyze` pipeline (not in `dduf lint`: a classification is a
//! fact, not a defect, and must not trip `--deny-warnings`).

use super::{AnalysisInput, Diagnostic, Pass};
use crate::ast::{Pred, Term, Var};
use crate::depgraph::{DepGraph, EdgeSign};
use crate::schema::{DerivedRole, Program, Role};
use crate::stratify::{components, Component, Strategy};
use std::collections::BTreeMap;
use std::collections::BTreeSet;

/// Why an insertion request on a view admits several base translations.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Ambiguity {
    /// More than one defining rule: any of them can support the fact.
    MultipleRules,
    /// A body variable not bound by the head: its instantiation is free.
    ExistentialVariables,
    /// A negative body literal: satisfied by deleting, with a choice of
    /// which supporting fact to delete.
    Negation,
}

impl Ambiguity {
    /// Stable lowercase name (report JSON).
    pub fn name(self) -> &'static str {
        match self {
            Ambiguity::MultipleRules => "multiple_rules",
            Ambiguity::ExistentialVariables => "existential_variables",
            Ambiguity::Negation => "negation",
        }
    }
}

/// The downward (view update) translation character of a predicate.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Translation {
    /// Exactly one base translation per request.
    Deterministic,
    /// Several translations; the reasons, deduplicated and ordered.
    Ambiguous(Vec<Ambiguity>),
}

/// The upward (maintenance) character of a predicate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Maintenance {
    /// Insertions only induce insertions, deletions only deletions.
    Monotone,
    /// Some base insertion can induce a deletion (and vice versa).
    DeletionSensitive,
}

/// One derived predicate's classification.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PredClass {
    /// Downward translation character.
    pub translation: Translation,
    /// Upward maintenance character.
    pub maintenance: Maintenance,
    /// The engine's maintenance strategy, `None` when the predicate's
    /// component negates itself.
    pub strategy: Option<Strategy>,
}

/// The full classification table.
#[derive(Clone, Debug, Default)]
pub struct Classification {
    /// Derived predicate → its class.
    pub preds: BTreeMap<Pred, PredClass>,
}

impl Classification {
    /// Classifies every derived predicate of `program`, whose
    /// [`components`] are `components`.
    pub fn compute(program: &Program, components: &[Component]) -> Classification {
        let graph = DepGraph::build(program);
        let strategy: BTreeMap<Pred, Strategy> = components
            .iter()
            .filter_map(|c| Some((c, c.strategy()?)))
            .flat_map(|(c, s)| c.preds.iter().map(move |&p| (p, s)))
            .collect();
        let mut preds = BTreeMap::new();
        for (pred, role) in program.predicates() {
            if !matches!(role, Role::Derived(_)) {
                continue;
            }
            let rules = program.rules_for(pred);
            let mut reasons: BTreeSet<Ambiguity> = BTreeSet::new();
            if rules.len() > 1 {
                reasons.insert(Ambiguity::MultipleRules);
            }
            for rule in &rules {
                let head_vars: BTreeSet<Var> = rule.head.vars().into_iter().collect();
                let existential = rule.body.iter().any(|l| {
                    l.atom
                        .terms
                        .iter()
                        .any(|t| matches!(t, Term::Var(v) if !head_vars.contains(v)))
                });
                if existential {
                    reasons.insert(Ambiguity::ExistentialVariables);
                }
                if rule.body.iter().any(|l| !l.positive) {
                    reasons.insert(Ambiguity::Negation);
                }
            }
            let translation = if reasons.is_empty() {
                Translation::Deterministic
            } else {
                Translation::Ambiguous(reasons.into_iter().collect())
            };
            let deletion_sensitive = graph
                .signed_closure([(pred, EdgeSign::Negative)])
                .into_iter()
                .any(|(q, sign)| sign == EdgeSign::Positive && !program.is_derived(q));
            let maintenance = if deletion_sensitive {
                Maintenance::DeletionSensitive
            } else {
                Maintenance::Monotone
            };
            preds.insert(
                pred,
                PredClass {
                    translation,
                    maintenance,
                    strategy: strategy.get(&pred).copied(),
                },
            );
        }
        Classification { preds }
    }
}

/// The classification pass: one `I001`/`I002` per derived predicate, plus
/// `I003` for deletion-sensitive maintenance and `I004` for the DRed
/// strategy.
pub struct Classify;

impl Pass for Classify {
    fn name(&self) -> &'static str {
        "classification"
    }

    fn run(&self, input: &AnalysisInput<'_>, out: &mut Vec<Diagnostic>) {
        let table = Classification::compute(input.program, &components(input.program));
        for (pred, class) in &table.preds {
            let kind = match input.program.role(*pred) {
                Some(Role::Derived(DerivedRole::Ic)) => "constraint",
                Some(Role::Derived(DerivedRole::Cond)) => "condition",
                _ => "view",
            };
            let at = input
                .program
                .rules_for(*pred)
                .first()
                .map(|r| r.head.clone());
            let mut push = |d: Diagnostic| {
                let d = match &at {
                    Some(head) if head.span.is_some() => d.at_atom(head, "defined here"),
                    _ => d,
                };
                out.push(d);
            };
            match &class.translation {
                Translation::Deterministic => push(Diagnostic::info(
                    "I001",
                    format!(
                        "{kind} `{}`: update translation is deterministic — each request \
                         has exactly one base translation (§5.2)",
                        pred.name
                    ),
                )),
                Translation::Ambiguous(reasons) => {
                    let why: Vec<&str> = reasons.iter().map(|r| r.name()).collect();
                    push(Diagnostic::info(
                        "I002",
                        format!(
                            "{kind} `{}`: update translation is ambiguous ({}) — requests \
                             expand to alternative base transactions (§5.2)",
                            pred.name,
                            why.join(", ")
                        ),
                    ));
                }
            }
            if class.maintenance == Maintenance::DeletionSensitive {
                push(Diagnostic::info(
                    "I003",
                    format!(
                        "{kind} `{}`: maintenance is deletion-sensitive — its definition \
                         passes through negation, so insertions can induce deletions (§3.2)",
                        pred.name
                    ),
                ));
            }
            if class.strategy == Some(Strategy::DRed) {
                push(Diagnostic::info(
                    "I004",
                    format!(
                        "{kind} `{}`: recursive — monitoring maintains the component by DRed, \
                         deleting and rederiving from the changed tuples (DESIGN.md §15)",
                        pred.name
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program_lenient;

    fn classify(src: &str) -> Classification {
        let program = parse_program_lenient(src).unwrap().output.program;
        Classification::compute(&program, &components(&program))
    }

    #[test]
    fn single_positive_rule_is_deterministic_and_monotone() {
        let t = classify("couple(X, Y) :- wife(X, Y).\n");
        let c = &t.preds[&Pred::new("couple", 2)];
        assert_eq!(c.translation, Translation::Deterministic);
        assert_eq!(c.maintenance, Maintenance::Monotone);
        assert_eq!(c.strategy, Some(Strategy::Counting));
    }

    #[test]
    fn ambiguity_reasons_accumulate() {
        let t = classify(
            "works(X) :- emp(X, Y).\n\
             works(X) :- contractor(X), not retired(X).\n",
        );
        let Translation::Ambiguous(reasons) = &t.preds[&Pred::new("works", 1)].translation else {
            panic!("expected ambiguous");
        };
        assert_eq!(
            reasons,
            &vec![
                Ambiguity::MultipleRules,
                Ambiguity::ExistentialVariables,
                Ambiguity::Negation
            ]
        );
    }

    #[test]
    fn negation_below_makes_dependents_deletion_sensitive() {
        let t = classify(
            "unemp(X) :- la(X), not works(X).\n\
             needy(X) :- unemp(X), person(X).\n\
             plain(X) :- person(X).\n",
        );
        assert_eq!(
            t.preds[&Pred::new("needy", 1)].maintenance,
            Maintenance::DeletionSensitive
        );
        assert_eq!(
            t.preds[&Pred::new("plain", 1)].maintenance,
            Maintenance::Monotone
        );
    }

    #[test]
    fn recursion_monitors_by_dred() {
        let t = classify("tc(X, Y) :- e(X, Y).\ntc(X, Y) :- e(X, Z), tc(Z, Y).\n");
        assert_eq!(t.preds[&Pred::new("tc", 2)].strategy, Some(Strategy::DRed));
    }
}
