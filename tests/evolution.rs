//! Integration tests for rule updates (§5.3 closing paragraph): adding and
//! removing deductive rules and integrity constraints through the uniform
//! update processor, with induced derived events reported exactly like
//! base-fact transactions.

use dduf::core::evolution::EventRuleChange;
use dduf::core::problems::repair::RepairOutcome;
use dduf::core::testkit;
use dduf::prelude::*;

fn rule(src: &str) -> Rule {
    let out = dduf::datalog::parser::parse_program(src).unwrap();
    out.program.rules()[0].clone()
}

#[test]
fn adding_a_rule_induces_derived_insertions() {
    // unemp(X) :- la(X), not works(X) exists; dolors is unemployed.
    let mut proc = UpdateProcessor::new(testkit::employment_db()).unwrap();
    // New rule: anyone with a benefit also counts as supported.
    let res = proc
        .add_rule(rule("supported(X) :- u_benefit(X)."))
        .unwrap();
    assert!(res
        .rule_changes
        .contains(&EventRuleChange::Added(Pred::new("supported", 1))));
    assert!(res.induced.contains(&GroundEvent::ins(
        Pred::new("supported", 1),
        Tuple::new(vec![Const::sym("dolors")])
    )));
    // The processor's state is fresh: queries see the new view.
    assert!(proc.state().holds(
        Pred::new("supported", 1),
        &Tuple::new(vec![Const::sym("dolors")])
    ));
}

#[test]
fn removing_a_rule_induces_derived_deletions() {
    let mut proc = UpdateProcessor::new(testkit::employment_db()).unwrap();
    let doomed = rule("unemp(X) :- la(X), not works(X).");
    let res = proc.remove_rule(&doomed).unwrap();
    // unemp(dolors) disappears, and with it the (satisfied) ic1 stays off.
    assert!(res.induced.contains(&GroundEvent::del(
        Pred::new("unemp", 1),
        Tuple::new(vec![Const::sym("dolors")])
    )));
    assert!(res.rule_changes.iter().any(
        |c| matches!(c, EventRuleChange::Rebuilt(p) | EventRuleChange::Removed(p)
            if *p == Pred::new("unemp", 1))
    ));
}

#[test]
fn adding_a_constraint_can_make_db_inconsistent() {
    // Start consistent; add "no one both works and has a benefit" to a
    // database where that holds — then one where it does not.
    let db = parse_database(
        "works(pere). u_benefit(pere).
         unemp(X) :- la(X), not works(X).",
    )
    .unwrap();
    let mut proc = UpdateProcessor::new(db).unwrap();
    let (res, icp) = proc
        .add_constraint(vec![
            Literal::pos(Atom::new("works", vec![Term::var("X")])),
            Literal::pos(Atom::new("u_benefit", vec![Term::var("X")])),
        ])
        .unwrap();
    // The constraint fires immediately: ins ic events induced.
    assert!(res
        .induced
        .iter()
        .any(|e| e.pred == icp && e.kind == EventKind::Ins));
    // And the repair machinery can now fix it.
    match proc.repairs().unwrap() {
        RepairOutcome::Repairs(r) => assert!(!r.alternatives.is_empty()),
        other => panic!("expected repairs, got {other:?}"),
    }
}

#[test]
fn removing_a_constraint_restores_consistency() {
    let db = parse_database(
        "la(dolors).
         unemp(X) :- la(X), not works(X).
         :- unemp(X), not u_benefit(X).",
    )
    .unwrap();
    let mut proc = UpdateProcessor::new(db).unwrap();
    assert!(matches!(proc.repairs().unwrap(), RepairOutcome::Repairs(_)));
    let res = proc.remove_constraint(Pred::new("ic1", 0)).unwrap();
    assert!(res
        .induced
        .iter()
        .any(|e| e.kind == EventKind::Del && e.pred == Pred::new("ic1", 0)));
    assert!(matches!(
        proc.repairs().unwrap(),
        RepairOutcome::AlreadyConsistent | RepairOutcome::NoConstraints
    ));
}

#[test]
fn rule_update_then_transactions_keep_working() {
    let mut proc = UpdateProcessor::new(testkit::employment_db()).unwrap();
    proc.add_rule(rule("covered(X) :- works(X). ")).unwrap();
    proc.add_rule(rule("covered(X) :- u_benefit(X).")).unwrap();
    let txn = proc.transaction("+works(maria).").unwrap();
    let up = proc.upward(&txn).unwrap();
    assert!(up.induced_contains("covered", "maria"));
    proc.commit(&txn).unwrap();
    let fresh = materialize(proc.database()).unwrap();
    assert_eq!(proc.interpretation(), &fresh);
}

trait UpExt {
    fn induced_contains(&self, pred: &str, c: &str) -> bool;
}
impl UpExt for UpwardResult {
    fn induced_contains(&self, pred: &str, c: &str) -> bool {
        self.derived.contains(&GroundEvent::ins(
            Pred::new(pred, 1),
            Tuple::new(vec![Const::sym(c)]),
        ))
    }
}

#[test]
fn incompatible_rule_update_rejected() {
    // Adding a rule whose head predicate has stored facts must fail.
    let mut proc = UpdateProcessor::new(parse_database("s(a). q(b).").unwrap()).unwrap();
    let err = proc.add_rule(rule("s(X) :- q(X).")).unwrap_err();
    assert!(err.to_string().contains("derived"), "{err}");
    // The processor is unchanged after the failed update.
    assert!(proc
        .state()
        .holds(Pred::new("s", 1), &Tuple::new(vec![Const::sym("a")])));
}

/// A removal names what the program has: a rule it lacks, or a
/// predicate that is not a constraint's, is an error naming it, and the
/// processor stays as it was.
#[test]
fn removing_what_the_program_lacks_is_refused() {
    let mut proc = UpdateProcessor::new(testkit::employment_db()).unwrap();
    let before = (
        dduf::datalog::pretty::database(proc.database()),
        proc.interpretation().clone(),
        proc.maintenance().unwrap().counts().clone(),
    );
    let err = proc.remove_rule(&rule("unemp(X) :- la(X).")).unwrap_err();
    assert!(matches!(err, Error::NotInProgram(_)), "{err}");
    assert!(err.to_string().contains("unemp(X) :- la(X)"), "{err}");
    for pred in [
        Pred::new("unemp", 1),
        Pred::new("la", 1),
        Pred::new("ic9", 0),
    ] {
        let err = proc.remove_constraint(pred).unwrap_err();
        assert!(matches!(err, Error::NotInProgram(_)), "{err}");
        assert!(err.to_string().contains(&pred.to_string()), "{err}");
    }
    assert_eq!(dduf::datalog::pretty::database(proc.database()), before.0);
    assert_eq!(proc.interpretation(), &before.1);
    assert_eq!(proc.maintenance().unwrap().counts(), &before.2);
    // The real ones still go.
    proc.remove_constraint(Pred::new("ic1", 0)).unwrap();
    proc.remove_rule(&rule("unemp(X) :- la(X), not works(X)."))
        .unwrap();
    assert!(proc
        .interpretation()
        .relation(Pred::new("unemp", 1))
        .is_empty());
}
