//! Updates of the intensional part: insertions and deletions of deductive
//! rules and integrity constraints.
//!
//! §5.3, closing paragraph: "the specification of the upward and the
//! downward problems is the same when considering other kinds of updates
//! like insertions or deletions of deductive rules. In this case, we
//! should first determine the changes on the transition and event rules
//! caused by the update and apply then our approach in the same way."
//!
//! Transition and event rules are *derived* structures in this
//! implementation (never stored), built from a predicate's own rules
//! alone. So a rule update is: rebuild the program, compare its rules
//! predicate by predicate with the old ones ([`rule_changes`]), and let
//! the maintenance engine re-evaluate the components of the changed
//! predicates and of the readers of a changed extension, keeping the
//! rest ([`MaintenanceEngine::build`]); the induced derived events are
//! the re-evaluated extensions' differences, as a transaction's would be.
//!
//! [`MaintenanceEngine::build`]: crate::upward::maintain::MaintenanceEngine::build

use crate::error::Result;
use dduf_datalog::ast::{Literal, Pred, Rule};
use dduf_datalog::schema::Program;
use dduf_events::store::EventStore;
use std::fmt;

/// How one predicate's event rules changed under a rule update.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EventRuleChange {
    /// The predicate is newly derived (its event rules now exist).
    Added(Pred),
    /// The predicate lost its last rule (its event rules are gone).
    Removed(Pred),
    /// The predicate's definition changed; its transition and event rules
    /// were rebuilt.
    Rebuilt(Pred),
}

impl EventRuleChange {
    /// The predicate whose event rules changed.
    pub fn pred(&self) -> Pred {
        let (Self::Added(p) | Self::Removed(p) | Self::Rebuilt(p)) = self;
        *p
    }
}

impl fmt::Display for EventRuleChange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventRuleChange::Added(p) => write!(f, "event rules added for {p}"),
            EventRuleChange::Removed(p) => write!(f, "event rules removed for {p}"),
            EventRuleChange::Rebuilt(p) => write!(f, "event rules rebuilt for {p}"),
        }
    }
}

/// The outcome of a rule update.
#[derive(Clone, Debug)]
pub struct EvolutionResult {
    /// Derived events induced by the rule change (facts of derived
    /// predicates appearing/disappearing although no base fact changed).
    pub induced: EventStore,
    /// Which predicates' transition/event rules changed.
    pub rule_changes: Vec<EventRuleChange>,
}

/// Rebuilds a program with `added` rules appended and rules matching
/// `removed` dropped. The synthesized global-`ic` rules are excluded and
/// re-synthesized by the builder; every predicate role is re-declared so
/// role inference stays stable across the update.
pub fn rebuild_program(old: &Program, added: &[Rule], removed: &[Rule]) -> Result<Program> {
    let global = old.global_ic();
    let mut b = Program::builder();
    b.domain(old.declared_domain().iter().copied());
    for (pred, dom) in old.pred_domains() {
        b.pred_domain(pred, dom.iter().copied());
    }
    for (pred, role) in old.predicates().filter(|&(p, _)| Some(p) != global) {
        b.declare(pred, role)?;
    }
    let mut to_remove: Vec<&Rule> = removed.iter().collect();
    // The global-`ic` rules are synthesized; the builder makes them again.
    for rule in old.rules().iter().filter(|r| Some(r.head.pred) != global) {
        if let Some(i) = to_remove.iter().position(|r| *r == rule) {
            to_remove.remove(i);
        } else {
            b.rule(rule.clone());
        }
    }
    for rule in added {
        b.rule(rule.clone());
    }
    Ok(b.build()?)
}

/// Rebuilds with an added denial constraint, returning the synthesized
/// inconsistency predicate as well.
pub fn rebuild_with_denial(old: &Program, body: Vec<Literal>) -> Result<(Program, Pred)> {
    // Denials are numbered; continue the numbering past existing icN.
    let mut n = 1;
    while old
        .predicates()
        .any(|(p, _)| p.arity == 0 && p.name.as_str() == format!("ic{n}"))
    {
        n += 1;
    }
    let head = dduf_datalog::ast::Atom::new(&format!("ic{n}"), vec![]);
    let pred = head.pred;
    let rule = Rule::new(head, body);
    Ok((rebuild_program(old, &[rule], &[])?, pred))
}

/// The §5.3 "changes on the transition and event rules" of a rule update
/// from `old` to `new`, per derived predicate: its event rules are built
/// from its own rules alone, so they changed exactly when those did.
pub fn rule_changes(old: &Program, new: &Program) -> Vec<EventRuleChange> {
    use EventRuleChange::*;
    fn derived(p: &Program) -> impl Iterator<Item = Pred> + '_ {
        p.predicates()
            .filter(|&(q, _)| p.is_derived(q))
            .map(|(q, _)| q)
    }
    let changed = |p: Pred| match old.is_derived(p) {
        false => Some(Added(p)),
        true => (old.rules_for(p) != new.rules_for(p)).then_some(Rebuilt(p)),
    };
    let removed = derived(old).filter(|&p| !new.is_derived(p)).map(Removed);
    derived(new).filter_map(changed).chain(removed).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dduf_datalog::ast::{Atom, Term};
    use dduf_datalog::parser::parse_database;

    fn rule(head: &str, body_src: &str) -> Rule {
        // tiny helper: parse "head :- body." through the real parser
        let out = dduf_datalog::parser::parse_program(&format!("{head} :- {body_src}.")).unwrap();
        out.program.rules()[0].clone()
    }

    #[test]
    fn rebuild_adds_and_removes() {
        let db = parse_database("q(a). p(X) :- q(X).").unwrap();
        let added = rule("w(X)", "q(X)");
        let removed = rule("p(X)", "q(X)");
        let prog = rebuild_program(
            db.program(),
            std::slice::from_ref(&added),
            std::slice::from_ref(&removed),
        )
        .unwrap();
        assert!(prog.rules_for(Pred::new("w", 1)).len() == 1);
        assert!(prog.rules_for(Pred::new("p", 1)).is_empty());
    }

    #[test]
    fn global_ic_resynthesized() {
        let db = parse_database("q(a). :- q(X), not r(X).").unwrap();
        let prog = rebuild_program(db.program(), &[], &[]).unwrap();
        let global = prog.global_ic().unwrap();
        assert_eq!(prog.rules_for(global).len(), 1);
        // Not duplicated.
        assert_eq!(
            prog.rules().len(),
            db.program().rules().len(),
            "rebuild must not duplicate synthesized rules"
        );
    }

    #[test]
    fn denial_numbering_continues() {
        let db = parse_database(":- q(X). :- r(X).").unwrap();
        let (prog, pred) = rebuild_with_denial(
            db.program(),
            vec![Literal::pos(Atom::new("s", vec![Term::var("X")]))],
        )
        .unwrap();
        assert_eq!(pred, Pred::new("ic3", 0));
        assert!(prog.global_ic().is_some());
        assert_eq!(prog.rules_for(prog.global_ic().unwrap()).len(), 3);
    }

    #[test]
    fn event_rule_diff_classifies() {
        let db1 = parse_database("p(X) :- q(X).").unwrap();
        let db2_prog = rebuild_program(
            db1.program(),
            &[rule("p(X)", "r(X)"), rule("w(X)", "q(X)")],
            &[],
        )
        .unwrap();
        let changes = rule_changes(db1.program(), &db2_prog);
        assert!(changes.contains(&EventRuleChange::Rebuilt(Pred::new("p", 1))));
        assert!(changes.contains(&EventRuleChange::Added(Pred::new("w", 1))));
        let back = rule_changes(&db2_prog, db1.program());
        assert!(back.contains(&EventRuleChange::Removed(Pred::new("w", 1))));
        // A predicate whose rules stayed is not reported.
        let same = rule_changes(
            db1.program(),
            &rebuild_program(db1.program(), &[], &[]).unwrap(),
        );
        assert!(same.is_empty(), "{same:?}");
    }

    #[test]
    fn rebind_rejects_fact_on_newly_derived_pred() {
        let db = parse_database("s(a). p(X) :- q(X).").unwrap();
        let prog = rebuild_program(db.program(), &[rule("s(X)", "q(X)")], &[]).unwrap();
        assert!(db.with_program(prog).is_err());
    }
}
